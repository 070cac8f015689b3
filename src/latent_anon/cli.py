"""Command-line entry point: prepare, train, gridsearch, means, anonymize,
attack, eval and bench subcommands over the library.

Every successful run writes a config.json echo of its arguments next to its
outputs so results can be reproduced exactly. All subcommands are
deterministic under --seed except probabilistic anonymization, whose Modify
coin intentionally comes from the OS secure random source; the seed still
pins the latent sampling noise.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .attack import AttackConfig, evaluate_utility_privacy, run_reid_attack
from .data.archive import ArchiveError, ArchiveMeta, load_embeddings, save_embeddings
from .data.csvload import CsvFormatError, CsvSchema, load_csv_dir, mobiact_schema, motionsense_schema
from .data.normalize import compute_norm_stats, normalize
from .data.split import subject_split, trial_split
from .data.types import LabelSpace
from .data.synth import SynthConfig, synth_generate
from .data.windowing import window_embeddings
from .models.gridsearch import grid_search
from .models.persist import ContainerError, load_model, save_model
from .models.training import TrainConfig, derive_seed, evaluate_accuracy, train_classifier, train_vae
from .pipeline import (
    ModelRegistry,
    PipelineError,
    anonymize_batch,
    anonymize_stream,
    encode_mean_table,
    make_anonymizer,
    validate_registry,
)
from .transform import ModifyPolicy, load_table, save_table


def _thread_cap():
    raw = os.environ.get("LATENT_ANON_THREADS", "1")
    if not (raw.strip().isdecimal() and int(raw) >= 1):
        raise ValueError(f"LATENT_ANON_THREADS must be an integer >= 1, got {raw!r}")
    return int(raw)


class _Outputs:
    """Writes a subcommand's outputs, one writer per text format, and tracks
    every file so failures leave nothing behind."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.created = []

    def prepare(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def path(self, name):
        p = self.out_dir / name
        self.created.append(p)
        return p

    def cleanup(self):
        for p in self.created:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass

    def write_json(self, name, payload):
        with open(self.path(name), "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")

    def write_csv(self, name, header, rows):
        with open(self.path(name), "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            writer.writerows(rows)

    def write_text(self, name, text):
        self.path(name).write_text(text, encoding="utf-8")


def _parse_floats(text):
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _parse_ints(text):
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _resolve_schema(args):
    name = args.schema
    if name == "synth":
        return None
    if name == "motionsense":
        return motionsense_schema()
    if name == "mobiact":
        return mobiact_schema()
    if name == "mobiact-weight":
        return mobiact_schema(private="weight")
    return CsvSchema.from_json(name)


def _load_split_archives(archive_arg):
    base = Path(archive_arg)
    if base.is_dir():
        train_path, test_path = base / "train.emba", base / "test.emba"
    else:
        raise ArchiveError(f"{base} is not an archive directory (expected train.emba/test.emba)")
    train, meta = load_embeddings(train_path)
    test, meta_test = load_embeddings(test_path)
    if (meta.window, meta.n_channels, meta.n_public, meta.n_private) != (
        meta_test.window,
        meta_test.n_channels,
        meta_test.n_public,
        meta_test.n_private,
    ):
        raise ArchiveError("train and test archives disagree on their headers")
    return train, test, meta


def _describe_model(kind, label):
    return f"the VAE of public class {label!r}" if kind == "vae" else f"the {label} classifier"


def _load_named_model(path, kind, label):
    """The model in path, which must be the one its file name says: a VAE of
    public class label or a classifier of attribute label. A file that
    fails to load is named in the error."""
    try:
        model, meta = load_model(path)
    except ContainerError as exc:
        raise ContainerError(f"{path}: {exc}") from exc
    held = (meta["kind"], meta["public_class"] if meta["kind"] == "vae" else meta["attribute"])
    if held != (kind, label):
        raise ContainerError(
            f"{path} holds {_describe_model(*held)}, expected {_describe_model(kind, label)}"
        )
    return model


def _load_models_dir(models_dir):
    models_dir = Path(models_dir)
    public = _load_named_model(models_dir / "public_classifier.lann", "classifier", "public")
    private = _load_named_model(models_dir / "private_classifier.lann", "classifier", "private")
    vaes = {}
    for path in sorted(models_dir.glob("vae_u*.lann")):
        label = path.stem[len("vae_u"):]
        u = int(label) if label.isdecimal() else label
        vaes[u] = _load_named_model(path, "vae", u)
    if not vaes:
        raise ContainerError(f"no vae_u*.lann files in {models_dir}")
    return vaes, public, private


def _build_registry(args):
    vaes, public_clf, private_clf = _load_models_dir(args.models)
    table = load_table(args.table)
    mode = {"det": "deterministic", "prob": "probabilistic", "reconstruct": "identity"}.get(
        args.mode, args.mode
    )
    policy = ModifyPolicy(mode=mode, n_classes=private_clf.n_classes)
    registry = ModelRegistry(
        vaes=vaes,
        public_classifier=public_clf,
        private_classifier=private_clf,
        mean_table=table,
        policy=policy,
    )
    defects = validate_registry(registry)
    if defects:
        raise PipelineError("invalid registry:\n" + "\n".join(f"  - {d}" for d in defects))
    return registry


# --- subcommands ---------------------------------------------------------------


def cmd_prepare(args, out):
    window, stride = args.window, args.stride
    if args.schema == "synth":
        cfg = SynthConfig(seed=args.seed)
        if args.synth_config:
            with open(args.synth_config, "r", encoding="utf-8") as f:
                overrides = json.load(f)
            unknown = sorted(set(overrides) - {f.name for f in fields(SynthConfig)})
            if unknown:
                raise ValueError(f"unknown keys in {args.synth_config}: {unknown}")
            cfg = SynthConfig(**{**overrides, "seed": args.seed})
        series = synth_generate(cfg)
        n_public, n_private = cfg.n_public, cfg.n_private
        test_trials = None
    else:
        schema = _resolve_schema(args)
        if not args.data:
            raise CsvFormatError("--data is required for CSV schemas")
        series = load_csv_dir(args.data, schema)
        n_public = len(schema.public_classes) if schema.public_classes else (
            max(s.attributes.get("public", 0) for s in series) + 1
        )
        n_private = max(s.attributes.get("private", 0) for s in series) + 1
        test_trials = schema.test_trials or None

    LabelSpace(n_public=n_public, n_private=n_private)
    embeddings = [e for s in series for e in window_embeddings(s, window, stride)]
    if not embeddings:
        raise ArchiveError("no complete windows; check --window against the series lengths")
    n_channels = series[0].n_channels

    if args.split == "trial" or (args.split == "auto" and test_trials):
        split = trial_split(embeddings, test_trials or _parse_ints(args.test_trials))
    else:
        split = subject_split(embeddings, args.fraction, seed=args.seed)

    stats = None
    if not args.no_normalize:
        stats = compute_norm_stats(split.train, window, n_channels)
        split = replace(
            split,
            train=normalize(split.train, stats),
            test=normalize(split.test, stats),
        )

    meta = ArchiveMeta(
        window=window,
        stride=stride,
        n_channels=n_channels,
        n_public=n_public,
        n_private=n_private,
    )
    save_embeddings(out.path("train.emba"), split.train, meta)
    save_embeddings(out.path("test.emba"), split.test, meta)
    manifest = {
        "window": window,
        "stride": stride,
        "n_channels": n_channels,
        "n_public": n_public,
        "n_private": n_private,
        "n_train": len(split.train),
        "n_test": len(split.test),
        "train_subjects": split.train_subjects,
        "test_subjects": split.test_subjects,
        "normalization": stats.to_dict() if stats else None,
    }
    out.write_json("manifest.json", manifest)
    print(f"prepared {len(split.train)} train / {len(split.test)} test embeddings "
          f"(W={window}, S={stride}, C={n_channels}, U={n_public}, M={n_private})")
    return 0


def cmd_train(args, out):
    train, test, meta = _load_split_archives(args.archive)
    config = TrainConfig(
        alpha=args.alpha,
        beta=args.beta,
        epochs=args.epochs,
        seed=args.seed,
        latent_dim=args.latent_dim,
    )
    curves = []

    public_clf, hist = train_classifier(train, "public", config, n_classes=meta.n_public)
    curves += [("public_classifier", k, v) for k, v in enumerate(hist)]
    private_clf, hist = train_classifier(train, "private", config, n_classes=meta.n_private)
    curves += [("private_classifier", k, v) for k, v in enumerate(hist)]

    vaes = {}
    for u in range(meta.n_public):
        subset = [e for e in train if e.true_public == u]
        if not subset:
            raise ArchiveError(f"no training embeddings for public class {u}")
        vaes[u], hist = train_vae(
            subset, replace(config, seed=derive_seed(args.seed, u)), n_private=meta.n_private
        )
        curves += [(f"vae_u{u}", k, v) for k, v in enumerate(hist)]

    save_model(out.path("public_classifier.lann"), public_clf, training_seed=args.seed)
    save_model(out.path("private_classifier.lann"), private_clf, training_seed=args.seed)
    for u, vae in vaes.items():
        save_model(out.path(f"vae_u{u}.lann"), vae, training_seed=args.seed)
    out.write_csv("losses.csv", ["model", "epoch", "loss"], curves)

    metrics = {
        "public_train_accuracy": evaluate_accuracy(public_clf, train, "public"),
        "private_train_accuracy": evaluate_accuracy(private_clf, train, "private"),
        "public_test_accuracy": evaluate_accuracy(public_clf, test, "public") if test else None,
        "private_test_accuracy": evaluate_accuracy(private_clf, test, "private") if test else None,
        "vae_final_loss": {u: [c for c in curves if c[0] == f"vae_u{u}"][-1][2] for u in vaes},
        "classification_loss_logged_zero": args.alpha == 0.0,
    }
    out.write_json("metrics.json", metrics)
    print(f"trained {len(vaes)} VAEs and 2 classifiers; "
          f"test acc public={metrics['public_test_accuracy']} private={metrics['private_test_accuracy']}")
    return 0


def cmd_gridsearch(args, out):
    train, _, meta = _load_split_archives(args.archive)
    datasets = {}
    for u in range(meta.n_public):
        subset = [e for e in train if e.true_public == u]
        if subset:
            datasets[u] = subset
    # alpha and beta are set per grid pair
    config = TrainConfig(epochs=args.epochs, seed=args.seed, latent_dim=args.latent_dim)
    result = grid_search(
        datasets, _parse_floats(args.alphas), _parse_floats(args.betas), config,
        n_private=meta.n_private,
    )
    out.write_csv(
        "grid.csv", ["alpha", "beta", "avg_loss"],
        ([e.alpha, e.beta, f"{e.avg_loss:.6f}"] for e in result.entries),
    )
    out.write_json("best.json", {"alpha": result.best_alpha, "beta": result.best_beta,
                                 "avg_loss": result.best_entry.avg_loss})
    print(f"best pair: alpha={result.best_alpha} beta={result.best_beta}")
    return 0


def cmd_means(args, out):
    train, _, meta = _load_split_archives(args.archive)
    vaes, _, _ = _load_models_dir(args.models)
    # training split only; the table is the broadcast payload
    table = encode_mean_table(vaes, train, meta.n_public, meta.n_private)
    save_table(table, out.path(Path(args.out_file).name if args.out_file else "table.zbar"))
    cells = sorted(table.cells())
    print(f"mean table over {len(train)} train embeddings; cells: {cells}")
    return 0


def cmd_anonymize(args, out):
    registry = _build_registry(args)
    noise_rng = np.random.default_rng(args.seed)
    if args.stream:
        return _anonymize_stream(args, out, registry, noise_rng)
    base = Path(args.archive)
    source = base / "test.emba" if base.is_dir() else base
    embeddings, meta = load_embeddings(source)
    outputs, records = anonymize_batch(embeddings, registry, noise_rng=noise_rng)
    obfuscated = [
        replace(e, x=outputs[k]) for k, e in enumerate(embeddings)
    ]
    save_embeddings(out.path("anonymized.emba"), obfuscated, meta)
    _write_records(out, records)
    applied = float(np.mean([r.applied for r in records])) if records else 0.0
    print(f"anonymized {len(records)} embeddings (mode={registry.policy.mode}, "
          f"applied rate {applied:.3f})")
    return 0


def _write_records(out, records):
    out.write_csv(
        "records.csv",
        ["index", "predicted_public", "predicted_private", "target_private", "applied", "zhat_crc32"],
        ([r.index, r.predicted_public, r.predicted_private, r.target_private, int(r.applied),
          r.zhat_crc32] for r in records),
    )


def _stream_rows(source):
    """The sample rows of a text stream, one per nonblank line, values split
    on commas or whitespace; a value that is not a number names its line."""
    for number, line in enumerate(source, 1):
        if line.strip():
            try:
                yield [float(v) for v in line.replace(",", " ").split()]
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None


def _anonymize_stream(args, out, registry, noise_rng):
    if not args.window or not args.stride:
        raise PipelineError("stream mode needs --window and --stride")
    source = sys.stdin if args.archive == "-" else open(args.archive, "r", encoding="utf-8")
    try:
        records = []
        with open(out.path("anonymized.txt"), "w", encoding="utf-8") as sink:
            for x_hat, record in anonymize_stream(
                _stream_rows(source), args.window, args.stride, registry, noise_rng=noise_rng
            ):
                sink.write(" ".join(f"{v:.17g}" for v in x_hat) + "\n")
                records.append(record)
        _write_records(out, records)
        print(f"anonymized {len(records)} stream windows")
        return 0
    finally:
        if source is not sys.stdin:
            source.close()


def cmd_attack(args, out):
    n_workers = _thread_cap()
    train, test, meta = _load_split_archives(args.archive)
    registry = _build_registry(args)
    config = AttackConfig(
        sample_fraction=args.fraction,
        n_runs=args.runs,
        seed=args.seed,
        attacker=TrainConfig(epochs=args.epochs, hidden=registry.private_classifier.hidden),
    )
    factory = lambda run_seed: make_anonymizer(registry, seed=run_seed)
    report = run_reid_attack(
        factory, train, test, meta.n_private, config,
        mode=registry.policy.mode, n_workers=n_workers,
    )
    out.write_text("runs.csv", report.to_csv())
    out.write_text("summary.json", report.to_json() + "\n")
    print(f"re-identification accuracy over {config.n_runs} runs: "
          f"mean {report.mean:.4f} std {report.std:.4f}")
    return 0


def cmd_eval(args, out):
    _, test, meta = _load_split_archives(args.archive)
    if args.mode == "none":
        # passthrough baseline: x_hat == x, so before and after match exactly
        _, public_clf, private_clf = _load_models_dir(args.models)
        anonymize = lambda embeddings: np.stack([e.x for e in embeddings])
    else:
        if not args.table:
            raise PipelineError("--table is required unless --mode none")
        registry = _build_registry(args)
        public_clf = registry.public_classifier
        private_clf = registry.private_classifier
        anonymize = make_anonymizer(registry, seed=args.seed)
    report = evaluate_utility_privacy(anonymize, test, public_clf, private_clf, meta.n_public)
    out.write_text("eval.csv", report.to_csv())
    out.write_text("eval.json", report.to_json() + "\n")
    w = report.weighted
    print(f"weighted accuracy: public {w.public_before:.4f} -> {w.public_after:.4f}, "
          f"private {w.private_before:.4f} -> {w.private_after:.4f}")
    return 0


def cmd_bench(args, out):
    registry = _build_registry(args)
    budget = bench_mod.time_budget_ms(args.rate, args.stride)
    if args.archive:
        base = Path(args.archive)
        embeddings, _ = load_embeddings(base / "test.emba" if base.is_dir() else base)
        embeddings = embeddings[: args.count]
    else:
        dim = registry.public_classifier.input_dim
        rng = np.random.default_rng(args.seed)
        embeddings = list(rng.standard_normal((args.count, dim)))
    report = bench_mod.benchmark_pipeline(
        registry, embeddings, warmup=args.warmup, repetitions=args.reps, seed=args.seed
    )
    verdict = bench_mod.check_realtime(report, budget)
    print(report.to_table())
    print(f"time budget at {args.rate} Hz, stride {args.stride}: {budget:.1f} ms")
    print(f"real-time check: {verdict.describe()}")
    payload = json.loads(report.to_json())
    payload["budget_ms"] = budget
    payload["realtime"] = {
        "passed": verdict.passed,
        "p99_ms": verdict.p99_ms,
        "margin_ms": verdict.margin_ms,
    }
    out.write_json("bench.json", payload)
    return 0


# --- parser --------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="latent-anon",
        description="Anonymize windowed sensor data via latent-space transformations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="window, label, split and archive a dataset")
    p.add_argument("--schema", required=True,
                   help="'synth', 'motionsense', 'mobiact', 'mobiact-weight' or a schema JSON path")
    p.add_argument("--data", help="directory of CSV files (not needed for synth)")
    p.add_argument("--synth-config", help="JSON overrides for the synthetic generator")
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=128)
    p.add_argument("--stride", type=int, default=10)
    p.add_argument("--split", choices=["auto", "subject", "trial"], default="auto")
    p.add_argument("--fraction", type=float, default=0.8)
    p.add_argument("--test-trials", default="11,12,13,14,15,16")
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train the classifiers and one VAE per public class")
    p.add_argument("--archive", required=True, help="directory with train.emba/test.emba")
    p.add_argument("--out", required=True, help="models output directory")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--latent-dim", type=int, default=8)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gridsearch", help="search the (alpha, beta) grid")
    p.add_argument("--archive", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alphas", default="0.5,1,2,3")
    p.add_argument("--betas", default="1,2,3,4")
    p.add_argument("--latent-dim", type=int, default=8)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("means", help="compute the class-mean latent table from the train split")
    p.add_argument("--archive", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--out-file", default="table.zbar")
    p.set_defaults(func=cmd_means)

    p = sub.add_parser("anonymize", help="run the anonymization pipeline over an archive or stream")
    p.add_argument("--archive", required=True,
                   help="archive file/directory, or sample file ('-' for stdin) with --stream")
    p.add_argument("--models", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--mode", choices=["det", "prob", "identity"], default="det")
    p.add_argument("--stream", action="store_true")
    p.add_argument("--window", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_anonymize)

    p = sub.add_parser("attack", help="re-identification attack against the anonymizer")
    p.add_argument("--archive", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--mode", choices=["det", "prob"], default="prob")
    p.add_argument("--fraction", type=float, default=0.2)
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("eval", help="utility/privacy accuracy before and after anonymization")
    p.add_argument("--archive", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--table", help="required unless --mode none")
    p.add_argument("--mode", choices=["det", "prob", "reconstruct", "none"], default="det")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="per-stage latency against the real-time budget")
    p.add_argument("--models", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--archive", help="optional embeddings source")
    p.add_argument("--mode", choices=["det", "prob", "identity"], default="det")
    p.add_argument("--rate", type=float, default=50.0)
    p.add_argument("--stride", type=int, default=10)
    p.add_argument("--count", type=int, default=256)
    p.add_argument("--warmup", type=int, default=100)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


# every package error is a ValueError except PipelineError
_ERRORS = (PipelineError, ValueError, OSError)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Outputs(args.out)
    try:
        out.prepare()
        code = args.func(args, out)
        if code == 0:
            out.write_json("config.json", {k: v for k, v in vars(args).items() if k != "func"})
        return code
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        out.cleanup()
        return 1


if __name__ == "__main__":
    sys.exit(main())
