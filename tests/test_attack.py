"""Re-identification attack harness and the utility/privacy evaluation."""

import numpy as np
import pytest

from latent_anon.attack import (
    AttackConfig,
    AttackReport,
    evaluate_utility_privacy,
    run_reid_attack,
)
from latent_anon.data import SynthConfig, synth_generate, window_embeddings
from latent_anon.models import Classifier, TrainConfig, VaeModel, train_classifier
from latent_anon.nn import MLP, Dense
from latent_anon.pipeline import ModelRegistry, make_anonymizer
from latent_anon.transform import MeanLatentTable, ModifyPolicy


def synth_split(seed=0, subjects=6, noise=0.05):
    cfg = SynthConfig(
        n_public=2, n_private=2, n_subjects=subjects, trials_per_class=1,
        samples_per_trial=160, n_channels=2, noise_std=noise, seed=seed,
    )
    series = synth_generate(cfg)
    embeddings = [e for s in series for e in window_embeddings(s, 32, 16)]
    cut = f"s{subjects - 2:02d}"
    train = [e for e in embeddings if e.subject_id < cut]
    test = [e for e in embeddings if e.subject_id >= cut]
    return train, test


def passthrough_factory(run_seed):
    return lambda embeddings: np.stack([e.x for e in embeddings])


def zeroing_factory(run_seed):
    return lambda embeddings: np.zeros((len(embeddings), embeddings[0].x.size))


FAST_ATTACKER = TrainConfig(epochs=60)


class TestRunReidAttack:
    def test_identity_anonymizer_leaks_everything(self):
        train, test = synth_split()
        config = AttackConfig(sample_fraction=0.5, n_runs=2, seed=1, attacker=FAST_ATTACKER)
        report = run_reid_attack(passthrough_factory, train, test, 2, config)
        assert report.mean > 0.95

    def test_zero_anonymizer_leaks_nothing_beyond_majority(self):
        train, test = synth_split()
        majority = max(
            np.mean([e.true_private == c for e in test]) for c in (0, 1)
        )
        config = AttackConfig(sample_fraction=0.5, n_runs=2, seed=2, attacker=FAST_ATTACKER)
        report = run_reid_attack(zeroing_factory, train, test, 2, config)
        assert report.mean <= majority + 0.05

    def test_reproducible_bit_for_bit(self):
        train, test = synth_split()
        config = AttackConfig(sample_fraction=0.4, n_runs=3, seed=7, attacker=FAST_ATTACKER)
        a = run_reid_attack(passthrough_factory, train, test, 2, config)
        b = run_reid_attack(passthrough_factory, train, test, 2, config)
        assert a.accuracies == b.accuracies

    def test_runs_use_distinct_samples(self):
        train, test = synth_split()
        seen = []

        def spy_factory(run_seed):
            seen.append(run_seed)
            return lambda embeddings: np.stack([e.x for e in embeddings])

        config = AttackConfig(sample_fraction=0.4, n_runs=3, seed=3, attacker=FAST_ATTACKER)
        run_reid_attack(spy_factory, train, test, 2, config)
        assert len(set(seen)) == 3

    def test_mean_std_recomputable(self):
        train, test = synth_split()
        config = AttackConfig(sample_fraction=0.4, n_runs=4, seed=5, attacker=FAST_ATTACKER)
        report = run_reid_attack(passthrough_factory, train, test, 2, config)
        assert report.mean == pytest.approx(np.mean(report.accuracies), abs=1e-12)
        assert report.std == pytest.approx(np.std(report.accuracies, ddof=1), abs=1e-12)

    def test_too_small_sample_rejected(self):
        train, test = synth_split()
        config = AttackConfig(sample_fraction=0.01, n_runs=1, attacker=FAST_ATTACKER)
        with pytest.raises(ValueError, match="sample fraction"):
            run_reid_attack(passthrough_factory, train, test, 2, config)

    def test_parallel_runs_match_sequential(self):
        train, test = synth_split()
        config = AttackConfig(sample_fraction=0.4, n_runs=3, seed=9, attacker=FAST_ATTACKER)
        seq = run_reid_attack(passthrough_factory, train, test, 2, config, n_workers=1)
        par = run_reid_attack(passthrough_factory, train, test, 2, config, n_workers=3)
        assert seq.accuracies == par.accuracies

    def test_report_serialization(self):
        train, test = synth_split()
        config = AttackConfig(sample_fraction=0.4, n_runs=2, seed=4, attacker=FAST_ATTACKER)
        report = run_reid_attack(passthrough_factory, train, test, 2, config, mode="deterministic")
        csv_text = report.to_csv()
        assert csv_text.startswith("run,accuracy\n") and csv_text.count("\n") == 3
        import json

        payload = json.loads(report.to_json())
        assert payload["mode"] == "deterministic"
        assert payload["config"]["n_runs"] == 2

    def test_report_json_pinned(self):
        report = AttackReport(
            accuracies=[0.5, 0.625], mean=0.5625, std=0.0625, mode="probabilistic",
            config={"runs": 2, "fraction": 0.2},
        )
        assert report.to_json() == """{
  "accuracies": [
    0.5,
    0.625
  ],
  "config": {
    "fraction": 0.2,
    "runs": 2
  },
  "mean": 0.5625,
  "mode": "probabilistic",
  "std": 0.0625
}"""

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            AttackConfig(sample_fraction=0.0)
        with pytest.raises(ValueError):
            AttackConfig(n_runs=0)


class TestAttackInference:
    # A row's product is W.dot(x), which releases the GIL on every call; a
    # batch's is x @ W.T, which keeps it at these sizes. The attack's threads
    # must therefore make batch calls only, or they contend for the lock.
    def test_no_one_vector_inference_call(self, monkeypatch):
        train, test = synth_split()
        dim = train[0].x.size
        rng = np.random.default_rng(0)
        registry = ModelRegistry(
            vaes={u: VaeModel(dim, 2, 2, public_class=u, hidden=(8,), rng=rng) for u in range(2)},
            public_classifier=Classifier(dim, 2, "public", hidden=(8,), rng=rng),
            private_classifier=Classifier(dim, 2, "private", hidden=(8,), rng=rng),
            mean_table=MeanLatentTable(
                2, 2, 2, {(u, i): (rng.normal(size=2), 1) for u in range(2) for i in range(2)}
            ),
            policy=ModifyPolicy(mode="probabilistic", n_classes=2),
        )
        ranks = []

        def recording(method):
            def wrapper(self, x):
                ranks.append(np.ndim(x))
                return method(self, x)

            return wrapper

        monkeypatch.setattr(Dense, "infer", recording(Dense.infer))
        monkeypatch.setattr(MLP, "logits", recording(MLP.logits))
        config = AttackConfig(sample_fraction=0.5, n_runs=2, seed=1, attacker=TrainConfig(epochs=2))
        run_reid_attack(
            lambda seed: make_anonymizer(registry, seed), train, test, 2, config, n_workers=2
        )
        assert ranks and 1 not in ranks


class TestEvaluateUtilityPrivacy:
    def trained_classifiers(self, train):
        config = TrainConfig(epochs=60, seed=2)
        public, _ = train_classifier(train, "public", config, n_classes=2)
        private, _ = train_classifier(train, "private", config, n_classes=2)
        return public, private

    def test_identity_anonymizer_before_equals_after(self):
        train, test = synth_split(seed=1)
        public, private = self.trained_classifiers(train)
        report = evaluate_utility_privacy(
            passthrough_factory(0), test, public, private, n_public=2
        )
        for row in report.rows + [report.weighted]:
            assert row.public_before == row.public_after
            assert row.private_before == row.private_after

    def test_weighted_average_with_equal_sizes_is_unweighted_mean(self):
        train, test = synth_split(seed=2)
        public, private = self.trained_classifiers(train)
        report = evaluate_utility_privacy(
            passthrough_factory(0), test, public, private, n_public=2
        )
        sizes = {row.n_embeddings for row in report.rows}
        assert len(sizes) == 1  # the synthetic split is balanced per class
        unweighted = np.mean([row.public_after for row in report.rows])
        assert report.weighted.public_after == pytest.approx(unweighted, abs=1e-12)

    def test_absent_class_reported_as_none(self):
        train, test = synth_split(seed=3)
        public, private = self.trained_classifiers(train)
        only_zero = [e for e in test if e.true_public == 0]
        report = evaluate_utility_privacy(
            passthrough_factory(0), only_zero, public, private, n_public=2
        )
        assert report.rows[1].public_before is None
        assert "n/a" in report.to_csv()

    def test_zeroing_anonymizer_changes_after_only(self):
        train, test = synth_split(seed=4)
        public, private = self.trained_classifiers(train)
        report = evaluate_utility_privacy(
            zeroing_factory(0), test, public, private, n_public=2
        )
        assert report.weighted.public_before > 0.9
        assert report.weighted.public_after <= 0.6
