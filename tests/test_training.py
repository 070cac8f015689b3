"""Training loops, the hyperparameter grid search, and model persistence."""

import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from latent_anon.container import unframe, write_framed
from latent_anon.data import Embedding, SynthConfig, synth_generate, window_embeddings
from latent_anon.models import (
    Classifier,
    TrainConfig,
    derive_seed,
    evaluate_accuracy,
    grid_search,
    load_model,
    sample_latent,
    save_model,
    train_classifier,
    train_vae,
)
from latent_anon.models import ContainerError, VaeModel, persist


def synth_embeddings(n_public=1, n_private=2, subjects=4, seed=0, noise=0.05, trials=1, channels=2):
    cfg = SynthConfig(
        n_public=n_public,
        n_private=n_private,
        n_subjects=subjects,
        trials_per_class=trials,
        samples_per_trial=160,
        n_channels=channels,
        noise_std=noise,
        seed=seed,
    )
    series = synth_generate(cfg)
    return [e for s in series for e in window_embeddings(s, 32, 16)]


def model_bytes(model):
    return b"".join(np.ascontiguousarray(p).tobytes() for p in model.parameters())


def model_payload(path):
    """(JSON blob, parameter bytes) of a model file."""
    (meta_len,), body = unframe(
        path.read_bytes(), persist.MAGIC, persist.VERSION, struct.Struct("<Q"), ContainerError,
        lambda header, body: (header, body),
    )
    return bytes(body[:meta_len]), bytes(body[meta_len:])


def reframe(path, blob, params, version=persist.VERSION):
    """Write blob and params as a model file with a valid checksum."""
    write_framed(path, persist.MAGIC, version, struct.pack("<Q", len(blob)), blob, params)


GOLDEN = Path(__file__).parent / "data"
GOLDEN_SEED = 11


def golden_model(kind):
    """The model of the committed golden file GOLDEN / f"{kind}_v2.lann",
    saved with training_seed=GOLDEN_SEED: its parameter vector is
    arange(n) / 7, so the bytes depend on no random generator. Regenerate
    the files only when the model file format changes on purpose."""
    rng = np.random.default_rng(0)
    if kind == "vae":
        model = VaeModel(4, 2, 3, public_class=1, hidden=(5, 3), rng=rng, alpha=1.5, beta=0.5)
    else:
        model = Classifier(4, 3, "private", hidden=(5, 2), rng=rng)
    model.parameter_vector[:] = np.arange(model.parameter_vector.size) / 7
    return model


def pinned_layers(model):
    """The on-disk order of a model's layers, each stored as W then b. A
    model that reorders them would read old files into the wrong tensors."""
    if isinstance(model, VaeModel):
        return [*model.encoder.layers, model.mu_head, model.logvar_head,
                *model.decoder.layers, model.class_head]
    return model.mlp.layers


class TestDeriveSeed:
    @pytest.mark.parametrize(
        "tags, expected",
        [
            ((0, 1, 2, 3), 3898271682),  # grid search: (seed, alpha idx, beta idx, class)
            ((3, 0, 0, 0), 1576890651),
            ((0, 0), 2968811710),  # attack: (seed, run)
            ((42, 9), 3918529139),
            ((5, 1), 3796490668),  # CLI train: (seed, public class)
            ((0, 3), 2613022947),
        ],
    )
    def test_pinned_values(self, tags, expected):
        assert derive_seed(*tags) == expected


class TestTrainVae:
    def test_zero_epochs_returns_initialized_model(self):
        embeddings = synth_embeddings()
        config = TrainConfig(epochs=0, seed=5)
        model, history = train_vae(embeddings, config, n_private=2)
        reference, _ = train_vae(embeddings, config, n_private=2)
        assert history == []
        assert model_bytes(model) == model_bytes(reference)

    def test_same_seed_bit_identical(self):
        embeddings = synth_embeddings()
        config = TrainConfig(epochs=8, seed=11)
        m1, h1 = train_vae(embeddings, config, n_private=2)
        m2, h2 = train_vae(embeddings, config, n_private=2)
        assert h1 == h2
        assert model_bytes(m1) == model_bytes(m2)

    def test_loss_trend_decreases(self):
        embeddings = synth_embeddings()
        _, history = train_vae(embeddings, TrainConfig(epochs=40, seed=2), n_private=2)
        assert np.mean(history[-5:]) <= np.mean(history[:5])

    def test_mixed_public_classes_rejected(self):
        embeddings = synth_embeddings(n_public=2)
        with pytest.raises(ValueError):
            train_vae(embeddings, TrainConfig(epochs=1), n_private=2)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_vae([], TrainConfig(epochs=1), n_private=2)

    def test_training_improves_reconstruction_tenfold(self):
        # single-class set: train against the untrained model's error
        embeddings = [e for e in synth_embeddings() if e.true_private == 0]
        x = np.stack([e.x for e in embeddings])
        untrained, _ = train_vae(embeddings, TrainConfig(epochs=0, seed=3), n_private=2)
        trained, _ = train_vae(embeddings, TrainConfig(epochs=120, seed=3), n_private=2)

        def mean_mse(model):
            rng = np.random.default_rng(9)
            dist = model.encode(x)
            z = sample_latent(dist, rng.standard_normal(dist.mu.shape))
            return float(np.mean((model.decode(z) - x) ** 2))

        assert mean_mse(untrained) / mean_mse(trained) >= 10.0

    def test_latent_head_separates_held_out_data(self):
        embeddings = synth_embeddings(subjects=8, seed=4, trials=2, channels=3)
        train = [e for e in embeddings if e.subject_id < "s06"]
        held_out = [e for e in embeddings if e.subject_id >= "s06"]
        model, _ = train_vae(train, TrainConfig(epochs=200, seed=7), n_private=2)
        x = np.stack([e.x for e in held_out])
        y = np.array([e.true_private for e in held_out])
        rng = np.random.default_rng(8)
        dist = model.encode(x)
        z = sample_latent(dist, rng.standard_normal(dist.mu.shape))
        predictions = np.argmax(model.classify_latent(z), axis=1)
        assert np.mean(predictions == y) > 0.90


class TestTrainClassifier:
    def test_single_class_dataset_is_trivially_perfect(self):
        embeddings = [e for e in synth_embeddings() if e.true_private == 1]
        model, _ = train_classifier(
            embeddings, "private", TrainConfig(epochs=10, seed=1), n_classes=2
        )
        assert evaluate_accuracy(model, embeddings, "private") == 1.0

    def test_same_seed_deterministic(self):
        embeddings = synth_embeddings(n_public=2)
        config = TrainConfig(epochs=6, seed=13)
        m1, h1 = train_classifier(embeddings, "public", config, n_classes=2)
        m2, h2 = train_classifier(embeddings, "public", config, n_classes=2)
        assert h1 == h2
        assert model_bytes(m1) == model_bytes(m2)

    def test_separable_four_class_accuracy(self):
        embeddings = synth_embeddings(n_public=4, subjects=6, seed=5)
        split_at = "s04"
        train = [e for e in embeddings if e.subject_id < split_at]
        test = [e for e in embeddings if e.subject_id >= split_at]
        model, _ = train_classifier(train, "public", TrainConfig(epochs=120, seed=3), n_classes=4)
        assert evaluate_accuracy(model, test, "public") > 0.95

    def test_missing_labels_rejected(self):
        bad = [Embedding(x=np.zeros(4))]
        with pytest.raises(ValueError):
            train_classifier(bad, "private", TrainConfig(epochs=1), n_classes=2)


class TestGridSearch:
    def test_single_candidate_wins(self):
        datasets = {0: synth_embeddings()}
        result = grid_search(datasets, [1.5], [2.0], TrainConfig(epochs=3, seed=1), n_private=2)
        assert (result.best_alpha, result.best_beta) == (1.5, 2.0)
        assert len(result.entries) == 1

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            grid_search({0: synth_embeddings()}, [], [1.0], TrainConfig(epochs=1), n_private=2)

    def test_best_attains_minimum(self):
        datasets = {0: synth_embeddings(seed=6)}
        result = grid_search(
            datasets, [0.5, 2.0], [1.0, 2.0], TrainConfig(epochs=4, seed=2), n_private=2
        )
        best = result.best_entry
        assert best.avg_loss == min(e.avg_loss for e in result.entries)

    def test_destructive_beta_loses(self):
        # a beta large enough to collapse the posterior ruins reconstruction;
        # the selection must keep the low beta
        datasets = {0: synth_embeddings(seed=7)}
        result = grid_search(
            datasets, [1.0], [1.0, 200.0], TrainConfig(epochs=30, seed=3), n_private=2
        )
        assert result.best_beta == 1.0

    def test_tie_breaks_toward_smaller_beta_then_alpha(self):
        from latent_anon.models.gridsearch import GridEntry, GridSearchResult

        entries = [
            GridEntry(alpha=2.0, beta=3.0, avg_loss=1.0, per_class_loss={}),
            GridEntry(alpha=1.0, beta=2.0, avg_loss=1.0, per_class_loss={}),
            GridEntry(alpha=0.5, beta=2.0, avg_loss=1.0, per_class_loss={}),
        ]
        best = min(entries, key=lambda e: (e.avg_loss, e.beta, e.alpha))
        assert (best.alpha, best.beta) == (0.5, 2.0)
        assert GridSearchResult(entries, best.alpha, best.beta).best_entry is entries[2]


class TestPersistence:
    def test_vae_round_trip_bit_exact(self, tmp_path):
        embeddings = synth_embeddings()
        model, _ = train_vae(embeddings, TrainConfig(epochs=4, seed=21), n_private=2)
        path = tmp_path / "vae.lann"
        save_model(path, model, training_seed=21)
        loaded, meta = load_model(path)
        assert model_bytes(loaded) == model_bytes(model)
        assert meta["kind"] == "vae" and meta["seed"] == 21
        assert (meta["alpha"], meta["beta"]) == (model.alpha, model.beta)
        assert meta["public_class"] == model.public_class

    def test_classifier_round_trip_bit_exact(self, tmp_path):
        embeddings = synth_embeddings(n_public=2)
        model, _ = train_classifier(embeddings, "public", TrainConfig(epochs=4, seed=2), n_classes=2)
        path = tmp_path / "clf.lann"
        save_model(path, model)
        loaded, meta = load_model(path)
        assert model_bytes(loaded) == model_bytes(model)
        assert meta["attribute"] == "public"

    def test_double_round_trip_stable_on_disk(self, tmp_path):
        embeddings = synth_embeddings()
        model, _ = train_vae(embeddings, TrainConfig(epochs=2, seed=5), n_private=2)
        p1, p2 = tmp_path / "a.lann", tmp_path / "b.lann"
        save_model(p1, model, training_seed=5)
        loaded, _ = load_model(p1)
        save_model(p2, loaded, training_seed=5)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda meta: {k: v for k, v in meta.items() if k != "kind"}, "'kind'"),
            (lambda meta: {k: v for k, v in meta.items() if k != "n_classes"}, "'n_classes'"),
            (lambda meta: [meta], "not a JSON object"),
            (lambda meta: {**meta, "hidden": 5}, "wrongly typed"),
            (lambda meta: {**meta, "input_dim": "4"}, "wrongly typed"),
        ],
        ids=["no-kind", "no-constructor-key", "not-an-object", "int-hidden", "str-input-dim"],
    )
    def test_bad_header_raises_container_error(self, tmp_path, edit, message):
        path = tmp_path / "clf.lann"
        save_model(path, Classifier(4, 2, "public", rng=np.random.default_rng(0)))
        blob, params = model_payload(path)
        reframe(path, json.dumps(edit(json.loads(blob))).encode("utf-8"), params)
        with pytest.raises(ContainerError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "model",
        [
            Classifier(4, 2, "private", hidden=(3,), rng=np.random.default_rng(0)),
            VaeModel(4, 2, 2, public_class=1, hidden=(3,), rng=np.random.default_rng(0)),
        ],
        ids=["classifier", "vae"],
    )
    def test_bare_file_byte_flips_raise_container_error(self, tmp_path, model):
        # a flip in the bare payload (length, JSON, parameter vector), framed
        # again with a fresh checksum, gets past the CRC to the JSON header
        # and the size check of the vector: it either loads or fails with
        # the named error, never with another exception
        path = tmp_path / "model.lann"
        save_model(path, model, training_seed=3)
        size = struct.calcsize("<Q")  # the JSON length
        bare = path.read_bytes()[len(persist.MAGIC) + 1 : -4]
        escaped = []
        for pos in range(len(bare)):
            for mask in (0x01, 0x80, 0xFF):
                flipped = bytearray(bare)
                flipped[pos] ^= mask
                write_framed(path, persist.MAGIC, persist.VERSION, flipped[:size], flipped[size:])
                try:
                    load_model(path)
                except ContainerError:
                    pass
                except Exception as exc:  # noqa: BLE001 - collected for the report
                    escaped.append((pos, mask, type(exc).__name__, str(exc)[:60]))
        assert escaped == []


@pytest.mark.parametrize("kind", ["classifier", "vae"])
class TestModelFileLayout:
    def test_golden_file(self, tmp_path, kind):
        name = f"{kind}_v2.lann"
        path = tmp_path / name
        save_model(path, golden_model(kind), training_seed=GOLDEN_SEED)
        assert path.read_bytes() == (GOLDEN / name).read_bytes()
        loaded, meta = load_model(GOLDEN / name)
        expected = (np.arange(loaded.parameter_vector.size) / 7).tobytes()
        assert loaded.parameter_vector.tobytes() == expected
        pinned = [p.ravel() for layer in pinned_layers(loaded) for p in (layer.W, layer.b)]
        assert np.concatenate(pinned).tobytes() == expected
        assert (meta["kind"], meta["seed"]) == (kind, GOLDEN_SEED)

    def test_body_is_the_parameter_vector(self, tmp_path, kind):
        rng = np.random.default_rng(8)
        model = VaeModel(5, 2, 2, rng=rng) if kind == "vae" else Classifier(5, 2, rng=rng)
        path = tmp_path / "model.lann"
        save_model(path, model)
        blob, params = model_payload(path)
        assert json.loads(blob)["kind"] == kind
        assert params == model.parameter_vector.astype("<f8").tobytes()

    def test_version_1_frame_rejected(self, tmp_path, kind):
        path = tmp_path / "model.lann"
        save_model(path, golden_model(kind))
        reframe(path, *model_payload(path), version=1)
        with pytest.raises(ContainerError, match="^unsupported LAMF1 version 1$"):
            load_model(path)

    def test_huge_dimension_fails_before_allocating(self, tmp_path, kind):
        """The body's size is checked against the parameter count that the
        JSON's dims imply before any weight is allocated: 10**12 inputs
        would need terabytes, 10**6 about 40 MB."""
        path = tmp_path / "model.lann"
        save_model(path, golden_model(kind))
        blob, params = model_payload(path)
        for dim in (10**12, 10**6):
            meta = dict(json.loads(blob), input_dim=dim)
            reframe(path, json.dumps(meta).encode(), params)
            tracemalloc.start()
            try:
                with pytest.raises(ContainerError, match=rf"^body has {len(params)} bytes, expected \d+ records"):
                    load_model(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000

    @pytest.mark.parametrize("resize", [lambda p: p[:-8], lambda p: p + p[:8]],
                             ids=["one-float-short", "one-float-long"])
    def test_wrong_parameter_count_rejected(self, tmp_path, kind, resize):
        path = tmp_path / "model.lann"
        save_model(path, golden_model(kind))
        blob, params = model_payload(path)
        reframe(path, blob, resize(params))
        with pytest.raises(ContainerError, match=f"expected {len(params) // 8} records of 8"):
            load_model(path)
