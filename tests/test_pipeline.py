"""Pipeline mechanics: step order, provenance records, batch/stream
equivalence and registry validation."""

import numpy as np
import pytest

from latent_anon.data import Embedding
from latent_anon.models import VaeModel
from latent_anon.models.classifier import Classifier
from latent_anon.pipeline import (
    ModelRegistry,
    PipelineError,
    StageTimings,
    anonymize_batch,
    anonymize_embedding,
    anonymize_stream,
    encode_mean_table,
    validate_registry,
)
from latent_anon.transform import (
    ConstantCoin,
    MeanLatentTable,
    ModifyPolicy,
    SequenceCoin,
    compute_mean_table,
)


class StubClassifier:
    """Predicts by thresholding the first feature; optionally logs calls."""

    def __init__(self, n_classes, input_dim, rule=None, log=None, name=""):
        self.n_classes = n_classes
        self.input_dim = input_dim
        self.rule = rule or (lambda x: 0)
        self.log = log
        self.name = name

    def predict(self, x):
        x = np.asarray(x)
        if self.log is not None:
            self.log.append(self.name)
        if x.ndim == 1:
            return self.rule(x)
        return np.array([self.rule(row) for row in x])


class PassthroughVae:
    """encode mu = x, decode z = z; the transform is then directly visible."""

    def __init__(self, dim, log=None):
        self.input_dim = dim
        self.latent_dim = dim
        self.log = log

    def encode(self, x):
        from latent_anon.models import LatentDistribution

        if self.log is not None:
            self.log.append("encode")
        x = np.asarray(x, dtype=float)
        return LatentDistribution(mu=x.copy(), logvar=np.full_like(x, -60.0))

    def decode(self, z):
        if self.log is not None:
            self.log.append("decode")
        return np.asarray(z, dtype=float).copy()


def passthrough_registry(dim=3, policy=None, log=None):
    cells = {
        (0, 0): (np.zeros(dim), 1),
        (0, 1): (np.ones(dim) * 10.0, 1),
    }
    table = MeanLatentTable(1, 2, dim, cells)
    return ModelRegistry(
        vaes={0: PassthroughVae(dim, log=log)},
        public_classifier=StubClassifier(1, dim, log=log, name="public"),
        private_classifier=StubClassifier(
            2, dim, rule=lambda x: int(x[0] > 5.0), log=log, name="private"
        ),
        mean_table=table,
        policy=policy or ModifyPolicy(mode="deterministic", n_classes=2),
    )


class TestAnonymizeEmbedding:
    def test_transfer_is_visible_through_passthrough_vae(self):
        registry = passthrough_registry()
        x = np.array([0.5, 1.0, 2.0])  # private class 0
        x_hat, record = anonymize_embedding(x, registry, latent_mode="mean")
        assert np.allclose(x_hat, x - np.zeros(3) + np.ones(3) * 10.0)
        assert record.predicted_private == 0 and record.target_private == 1
        assert record.applied

    def test_identity_policy_zero_noise_equals_reconstruction(self):
        # same code path as plain decode(mu(encode(x))), compared bitwise
        rng = np.random.default_rng(0)
        vae = VaeModel(input_dim=6, latent_dim=3, n_private=2, rng=rng)
        latents = [(rng.standard_normal(3), 0, i) for i in (0, 1) for _ in range(3)]
        table = compute_mean_table(latents, 1, 2)
        registry = ModelRegistry(
            vaes={0: vae},
            public_classifier=StubClassifier(1, 6),
            private_classifier=StubClassifier(2, 6, rule=lambda x: 0),
            mean_table=table,
            policy=ModifyPolicy(mode="identity", n_classes=2),
        )
        x = rng.standard_normal(6)
        x_hat, record = anonymize_embedding(x, registry, latent_mode="mean")
        expected = vae.decode(vae.encode(x).mu)
        assert x_hat.tobytes() == expected.tobytes()
        assert not record.applied and record.target_private == record.predicted_private

    def test_never_apply_coin(self):
        registry = passthrough_registry(policy=ModifyPolicy(mode="probabilistic", n_classes=2))
        x = np.array([9.0, 0.0, 0.0])  # private class 1
        x_hat, record = anonymize_embedding(x, registry, latent_mode="mean", coin=ConstantCoin(False))
        assert not record.applied
        assert record.target_private == record.predicted_private == 1
        assert np.allclose(x_hat, x)

    def test_applied_iff_class_changed(self):
        registry = passthrough_registry(policy=ModifyPolicy(mode="probabilistic", n_classes=2))
        coin = SequenceCoin(flips=[True, False])
        _, r1 = anonymize_embedding(np.zeros(3), registry, latent_mode="mean", coin=coin)
        _, r2 = anonymize_embedding(np.zeros(3), registry, latent_mode="mean", coin=coin)
        for r in (r1, r2):
            assert (r.target_private != r.predicted_private) == r.applied

    def test_step_order_classify_before_latent_ops(self):
        log = []
        registry = passthrough_registry(log=log)
        anonymize_embedding(np.zeros(3), registry, latent_mode="mean")
        assert log == ["public", "private", "encode", "decode"]

    def test_missing_vae_for_predicted_class(self):
        registry = passthrough_registry()
        registry.public_classifier = StubClassifier(2, 3, rule=lambda x: 1)
        with pytest.raises(PipelineError, match="public class 1"):
            anonymize_embedding(np.zeros(3), registry, latent_mode="mean")

    def test_missing_mean_cell_is_an_error(self):
        registry = passthrough_registry()
        registry.mean_table = MeanLatentTable(1, 2, 3, {(0, 0): (np.zeros(3), 1)})
        with pytest.raises(Exception, match=r"\(u=0, i=1\)"):
            anonymize_embedding(np.zeros(3), registry, latent_mode="mean")

    def test_deterministic_mode_is_pure(self):
        registry = passthrough_registry()
        x = np.array([1.0, 2.0, 3.0])
        a, ra = anonymize_embedding(x, registry, noise_rng=np.random.default_rng(5))
        b, rb = anonymize_embedding(x, registry, noise_rng=np.random.default_rng(5))
        assert a.tobytes() == b.tobytes()
        assert ra.zhat_crc32 == rb.zhat_crc32

    def test_sampled_latent_uses_noise_rng(self):
        rng = np.random.default_rng(1)
        vae = VaeModel(input_dim=3, latent_dim=2, n_private=2, rng=rng)
        table = compute_mean_table([(rng.standard_normal(2), 0, i) for i in (0, 1)], 1, 2)
        registry = ModelRegistry(
            vaes={0: vae},
            public_classifier=StubClassifier(1, 3),
            private_classifier=StubClassifier(2, 3),
            mean_table=table,
            policy=ModifyPolicy(mode="identity", n_classes=2),
        )
        x = np.ones(3)
        a, _ = anonymize_embedding(x, registry, noise_rng=np.random.default_rng(7))
        b, _ = anonymize_embedding(x, registry, noise_rng=np.random.default_rng(7))
        c, _ = anonymize_embedding(x, registry, noise_rng=np.random.default_rng(8))
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()


class TestAnonymizeBatch:
    def test_empty_batch(self):
        registry = passthrough_registry()
        outputs, records = anonymize_batch([], registry)
        assert outputs.shape == (0, 3) and records == []

    def test_batch_of_one_equals_single_call(self):
        registry = passthrough_registry()
        x = np.array([1.0, 0.0, 0.0])
        single, _ = anonymize_embedding(x, registry, noise_rng=np.random.default_rng(3))
        batch, _ = anonymize_batch([x], registry, noise_rng=np.random.default_rng(3))
        assert batch[0].tobytes() == single.tobytes()

    def test_batch_equals_sequential_with_same_streams(self):
        registry = passthrough_registry(policy=ModifyPolicy(mode="probabilistic", n_classes=2))
        rng = np.random.default_rng(4)
        xs = [rng.standard_normal(3) for _ in range(6)]
        flips = [True, False, True, True, False, False]
        batch_out, batch_rec = anonymize_batch(
            xs, registry, noise_rng=np.random.default_rng(5), coin=SequenceCoin(flips)
        )
        seq_rng = np.random.default_rng(5)
        seq_coin = SequenceCoin(flips)
        for k, x in enumerate(xs):
            x_hat, record = anonymize_embedding(
                x, registry, index=k, noise_rng=seq_rng, coin=seq_coin
            )
            assert batch_out[k].tobytes() == x_hat.tobytes()
            assert batch_rec[k].applied == record.applied

    def test_accepts_embedding_objects(self):
        registry = passthrough_registry()
        embeddings = [Embedding(x=np.zeros(3), true_public=0, true_private=0)]
        outputs, records = anonymize_batch(embeddings, registry, noise_rng=np.random.default_rng(0))
        assert outputs.shape == (1, 3)

    def test_per_item_error_carries_index(self):
        registry = passthrough_registry()
        registry.mean_table = MeanLatentTable(1, 2, 3, {(0, 0): (np.zeros(3), 1)})
        xs = [np.zeros(3), np.zeros(3)]
        with pytest.raises(PipelineError, match="embedding 0"):
            anonymize_batch(xs, registry, noise_rng=np.random.default_rng(0))


class TestAnonymizeStream:
    def rows(self, n, channels=3):
        rng = np.random.default_rng(6)
        return [rng.standard_normal(channels) for _ in range(n)]

    def test_exactly_one_window(self):
        registry = passthrough_registry(dim=24)
        outputs = list(anonymize_stream(self.rows(8), 8, 4, registry, noise_rng=np.random.default_rng(0)))
        assert len(outputs) == 1

    def test_window_plus_stride_gives_two(self):
        registry = passthrough_registry(dim=24)
        outputs = list(anonymize_stream(self.rows(12), 8, 4, registry, noise_rng=np.random.default_rng(0)))
        assert len(outputs) == 2

    def test_stream_matches_batch_on_same_windows(self):
        registry = passthrough_registry(dim=24)
        rows = self.rows(40)
        stacked = np.stack(rows)
        windows = [stacked[k : k + 8].reshape(-1) for k in range(0, 33, 4)]
        batch_out, _ = anonymize_batch(windows, registry, noise_rng=np.random.default_rng(9))
        stream_out = [
            x_hat
            for x_hat, _ in anonymize_stream(rows, 8, 4, registry, noise_rng=np.random.default_rng(9))
        ]
        assert len(stream_out) == len(windows)
        for a, b in zip(batch_out, stream_out):
            assert a.tobytes() == b.tobytes()

    def test_channel_change_mid_stream(self):
        registry = passthrough_registry(dim=6)
        rows = [np.zeros(3), np.zeros(3), np.zeros(2)]
        with pytest.raises(PipelineError, match="channel count"):
            list(anonymize_stream(rows, 2, 1, registry, noise_rng=np.random.default_rng(0)))

    def test_wrong_width_fails_at_the_first_row(self):
        registry = passthrough_registry(dim=24)

        def rows():
            yield np.zeros(2)
            raise AssertionError("read past the first row")

        with pytest.raises(PipelineError, match=r"window 8 x 2 channels = 16 .* expect 24"):
            next(anonymize_stream(rows(), 8, 4, registry))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_failing_window_is_named_and_ends_the_stream(self):
        registry = passthrough_registry(dim=6)
        registry.public_classifier = Classifier(6, 1, "public", rng=np.random.default_rng(0))
        rows = self.rows(10, channels=2)
        rows[5][1] = np.nan  # in windows 3, 4 and 5 of window 3, stride 1
        gen = anonymize_stream(rows, 3, 1, registry, noise_rng=np.random.default_rng(0))
        assert [record.index for _, record in (next(gen) for _ in range(3))] == [0, 1, 2]
        with pytest.raises(PipelineError, match=r"^window 3: .*finite logits"):
            next(gen)
        assert list(gen) == []

    def test_no_reordering(self):
        # the first window must contain the first W rows in arrival order
        registry = passthrough_registry(dim=6)
        rows = [np.array([k, k + 0.5]) for k in range(3)]
        outputs = list(
            anonymize_stream(rows, 3, 1, registry, latent_mode="mean")
        )
        # private class 0 shifts by +10 under the passthrough registry
        assert np.allclose(outputs[0][0], np.array([0, 0.5, 1, 1.5, 2, 2.5]) + 10.0)


class TestValidateRegistry:
    def test_coherent_registry(self):
        assert validate_registry(passthrough_registry()) == []

    def test_missing_cell_named(self):
        registry = passthrough_registry()
        registry.mean_table = MeanLatentTable(1, 2, 3, {(0, 0): (np.zeros(3), 1)})
        defects = validate_registry(registry)
        assert any("(u=0, i=1)" in d for d in defects)

    def test_wrong_latent_dim(self):
        registry = passthrough_registry()
        registry.mean_table = MeanLatentTable(
            1, 2, 5, {(0, i): (np.zeros(5), 1) for i in (0, 1)}
        )
        defects = validate_registry(registry)
        assert any("latent dim" in d for d in defects)

    def test_missing_vae(self):
        registry = passthrough_registry()
        registry.public_classifier = StubClassifier(2, 3)
        defects = validate_registry(registry)
        assert any("no VAE for public class 1" in d for d in defects)

    def test_identity_policy_class_count_checked(self):
        registry = passthrough_registry(policy=ModifyPolicy(mode="identity", n_classes=3))
        defects = validate_registry(registry)
        assert any("policy covers 3 private classes" in d for d in defects)

    def test_real_models_coherent(self):
        rng = np.random.default_rng(10)
        vaes = {u: VaeModel(input_dim=4, latent_dim=2, n_private=2, public_class=u, rng=rng) for u in (0, 1)}
        table = MeanLatentTable(
            2, 2, 2, {(u, i): (np.zeros(2), 1) for u in (0, 1) for i in (0, 1)}
        )
        registry = ModelRegistry(
            vaes=vaes,
            public_classifier=Classifier(4, 2, "public", rng=rng),
            private_classifier=Classifier(4, 2, "private", rng=rng),
            mean_table=table,
            policy=ModifyPolicy(mode="deterministic", n_classes=2),
        )
        assert validate_registry(registry) == []


class TestEncodeMeanTable:
    def embeddings(self, rng, n=24):
        return [
            Embedding(x=rng.standard_normal(4), true_public=k % 2, true_private=(k // 2) % 2)
            for k in range(n)
        ]

    def test_equals_table_over_per_row_encodes(self):
        rng = np.random.default_rng(13)
        vaes = {
            u: VaeModel(input_dim=4, latent_dim=2, n_private=2, public_class=u, rng=rng)
            for u in (0, 1)
        }
        embeddings = self.embeddings(rng)
        latents = [(vaes[e.true_public].encode(e.x).mu, e.true_public, e.true_private) for e in embeddings]
        assert encode_mean_table(vaes, embeddings, 2, 2) == compute_mean_table(latents, 2, 2)

    def test_missing_vae_named(self):
        rng = np.random.default_rng(14)
        vaes = {0: VaeModel(input_dim=4, latent_dim=2, n_private=2, public_class=0, rng=rng)}
        with pytest.raises(PipelineError, match="no VAE for public class 1"):
            encode_mean_table(vaes, self.embeddings(rng), 2, 2)


class TestThroughput:
    def test_per_embedding_time_does_not_grow_with_stream_length(self):
        # A stream that already served 9,000 windows is timed call by call,
        # alternating, against a fresh one fed the same rows, so both see the
        # same host speed. State that grows in the registry, the noise rng or
        # the generator shows up as a gap between the two medians.
        from time import perf_counter

        xs = np.random.default_rng(11).standard_normal((10_000, 3))

        def stream(rows, seed):
            return anonymize_stream(
                rows, 1, 1, passthrough_registry(), noise_rng=np.random.default_rng(seed)
            )

        aged = stream(xs, 12)
        for _ in range(9_000):
            next(aged)
        fresh = stream(xs[9_000:], 13)
        durations = np.empty((1_000, 2))
        for k in range(1_000):
            for j, gen in enumerate((fresh, aged)):
                t0 = perf_counter()
                next(gen)
                durations[k, j] = perf_counter() - t0
        first, last = np.median(durations, axis=0)
        assert abs(last - first) / first < 0.20

    def test_stage_timings_collected(self):
        registry = passthrough_registry()
        timings = StageTimings()
        anonymize_embedding(np.zeros(3), registry, latent_mode="mean", timings=timings)
        assert all(len(v) == 1 for v in timings.samples.values())
