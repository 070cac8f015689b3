"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the names double as the checklist. The end-to-end criteria (7, 8)
share one trained synthetic stack built by the session fixture.
"""

import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from latent_anon.attack import AttackConfig, run_reid_attack, evaluate_utility_privacy
from latent_anon.bench import benchmark_pipeline, check_realtime, time_budget_ms
from latent_anon.data import (
    SynthConfig,
    oracle_accuracy,
    oracle_classify,
    subject_split,
    synth_generate,
    window_embeddings,
    window_offsets,
)
from latent_anon.models import (
    Classifier,
    TrainConfig,
    VaeModel,
    kl_gaussian,
    load_model,
    loss_and_gradients,
    reconstruction_loss,
    sample_latent,
    save_model,
    train_classifier,
    train_vae,
)
from latent_anon.models.vae import LatentDistribution
from latent_anon.nn import Adam, grad_check
from latent_anon.pipeline import ModelRegistry, anonymize_batch, encode_mean_table, make_anonymizer
from latent_anon.transform import (
    ConstantCoin,
    MeanLatentTable,
    ModifyPolicy,
    SecureCoin,
    apply_transfer,
    cyclic_mapping,
    load_table,
    save_table,
)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion:02d}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


WINDOW, STRIDE = 32, 16
SYNTH = SynthConfig(seed=7)  # U=4, M=2, noise_std=0.05 defaults
TRAIN = TrainConfig(epochs=200, seed=3)  # alpha=2, beta=1, latent_dim J=8


@dataclass
class Stack:
    split: object
    public_clf: object
    private_clf: object
    vaes: dict
    table: object
    build_seconds: float

    def registry(self, mode):
        return ModelRegistry(
            vaes=self.vaes,
            public_classifier=self.public_clf,
            private_classifier=self.private_clf,
            mean_table=self.table,
            policy=ModifyPolicy(mode=mode, n_classes=SYNTH.n_private),
        )


@pytest.fixture(scope="session")
def stack():
    t0 = time.perf_counter()
    series = synth_generate(SYNTH)
    embeddings = [e for s in series for e in window_embeddings(s, WINDOW, STRIDE)]
    split = subject_split(embeddings, 0.8, seed=1)
    assert {e.true_private for e in split.test} == {0, 1}
    public_clf, _ = train_classifier(split.train, "public", TRAIN, n_classes=SYNTH.n_public)
    private_clf, _ = train_classifier(split.train, "private", TRAIN, n_classes=SYNTH.n_private)
    vaes = {}
    for u in range(SYNTH.n_public):
        subset = [e for e in split.train if e.true_public == u]
        vaes[u], _ = train_vae(subset, TRAIN, n_private=SYNTH.n_private)
    table = encode_mean_table(vaes, split.train, SYNTH.n_public, SYNTH.n_private)
    return Stack(split, public_clf, private_clf, vaes, table, time.perf_counter() - t0)


def test_criterion_01_gradient_fidelity():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        model = VaeModel(input_dim=6, latent_dim=3, n_private=2, hidden=(8,), rng=rng)
        x = rng.standard_normal((4, 6))
        y = rng.integers(0, 2, size=4)
        noise = rng.standard_normal((4, 3))
        alpha = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(0.2, 3.0))
        _, grads = loss_and_gradients(model, x, y, alpha, beta, noise)
        result = grad_check(
            lambda: loss_and_gradients(model, x, y, alpha, beta, noise)[0].total,
            model.parameters(),
            grads,
            eps=1e-5,
        )
        worst = max(worst, result.max_rel_error)
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst < 1e-5 and elapsed < 60.0,
        f"max relative gradient error {worst:.3e} over 100 random points in {elapsed:.1f}s",
    )


def test_criterion_02_kl_correctness():
    t0 = time.perf_counter()
    assert kl_gaussian(LatentDistribution(np.zeros(4), np.zeros(4))) == 0.0
    assert kl_gaussian(LatentDistribution(np.array([1.0]), np.array([0.0]))) == 0.5
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        j = int(rng.integers(1, 9))
        mu = rng.uniform(0.3, 1.5, size=j) * rng.choice([-1.0, 1.0], size=j)
        logvar = rng.uniform(-1.0, 1.0, size=j)
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * rng.standard_normal((1_000_000, j))
        log_q = -0.5 * (((z - mu) / sigma) ** 2 + np.log(2 * np.pi) + logvar).sum(axis=1)
        log_p = -0.5 * (z**2 + np.log(2 * np.pi)).sum(axis=1)
        estimate = float((log_q - log_p).mean())
        closed = kl_gaussian(LatentDistribution(mu, logvar))
        worst = max(worst, abs(closed - estimate) / closed)
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst < 0.01 and elapsed < 60.0,
        f"closed form within {worst:.2%} of 1e6-sample Monte Carlo over 20 pairs in {elapsed:.1f}s",
    )


def test_criterion_03_loss_reduction_and_frozen_head():
    rng = np.random.default_rng(21)
    model = VaeModel(input_dim=8, latent_dim=4, n_private=3, hidden=(10,), rng=rng)
    x = rng.standard_normal((6, 8))
    y = rng.integers(0, 3, size=6)
    noise = rng.standard_normal((6, 4))

    breakdown, grads = loss_and_gradients(model, x, y, alpha=0.0, beta=1.0, noise=noise)
    dist = model.encode(x)
    z = sample_latent(dist, noise)
    recon = float(reconstruction_loss(x, model.decode(z)).sum())
    kl = float(kl_gaussian(dist).sum())
    term_ok = (
        abs(breakdown.reconstruction - recon) < 1e-10
        and abs(breakdown.kl - kl) < 1e-10
        and abs(breakdown.total - (recon + kl)) < 1e-10
        and breakdown.classification >= 0.0
    )

    head_before = (model.class_head.W.tobytes(), model.class_head.b.tobytes())
    Adam(learning_rate=1e-3).step(model.parameters(), grads)
    head_after = (model.class_head.W.tobytes(), model.class_head.b.tobytes())
    # the step itself must be real: the encoder does receive gradient
    encoder_moved = bool(np.any(grads[0] != 0))  # encoder.layers[0].W

    report(
        3,
        term_ok and head_before == head_after and encoder_moved,
        "alpha=0, beta=1 equals the negative ELBO term-by-term at 1e-10 and "
        "a training step leaves the classification head bit-unchanged",
    )


def test_criterion_04_transfer_algebra():
    rng = np.random.default_rng(33)
    worst_inv = worst_cycle = 0.0
    for _ in range(1000):
        j = int(rng.integers(2, 9))
        # binary involution
        t2 = MeanLatentTable(
            1, 2, j, {(0, i): (rng.standard_normal(j), 1) for i in range(2)}
        )
        z = rng.standard_normal(j)
        back = apply_transfer(apply_transfer(z, t2, 0, 0, 1), t2, 0, 1, 0)
        worst_inv = max(worst_inv, float(np.max(np.abs(back - z))))
        # cycle telescoping for a random class count
        m = int(rng.integers(3, 6))
        tm = MeanLatentTable(
            1, m, j, {(0, i): (rng.standard_normal(j), 1) for i in range(m)}
        )
        mapping = cyclic_mapping(m)
        current, i = z, 0
        for _ in range(m):
            current = apply_transfer(current, tm, 0, i, mapping[i])
            i = mapping[i]
        worst_cycle = max(worst_cycle, float(np.max(np.abs(current - z))))
        # identity transfer is exact
        assert np.array_equal(apply_transfer(z, t2, 0, 1, 1), z)
    report(
        4,
        worst_inv < 1e-12 and worst_cycle < 1e-12,
        f"involution error {worst_inv:.2e}, cycle error {worst_cycle:.2e} over 1000 random latents",
    )


def test_criterion_05_windowing_oracle_and_cadence():
    rng = np.random.default_rng(44)
    for _ in range(1000):
        t = int(rng.integers(0, 3000))
        w = int(rng.integers(1, 300))
        s = int(rng.integers(1, 300))
        naive = [k for k in range(0, max(t, 1)) if k % s == 0 and k + w <= t]
        assert window_offsets(t, w, s) == naive
    budget_50 = time_budget_ms(50.0, 10)
    budget_20 = time_budget_ms(20.0, 10)
    report(
        5,
        budget_50 == 200.0 and budget_20 == 500.0,
        f"window counts match naive enumeration on 1000 triples; "
        f"(W=128, S=10) cadence gives {budget_50:.0f} ms at 50 Hz and {budget_20:.0f} ms at 20 Hz",
    )


def test_criterion_06_probabilistic_modify_frequency():
    coin = SecureCoin()
    n = 250_000
    binary = ModifyPolicy("probabilistic", 2)
    applied = sum(binary.modify(0, coin)[1] for _ in range(n))
    fraction = applied / n
    prob, det = ModifyPolicy("probabilistic", 3), ModifyPolicy("deterministic", 3)
    exact = all(
        prob.modify(i, ConstantCoin(True)) == det.modify(i)
        and prob.modify(i, ConstantCoin(False)) == (i, False)
        for i in range(3)
    )
    report(
        6,
        0.495 <= fraction <= 0.505 and exact,
        f"secure-coin applied fraction {fraction:.4f} over {n} draws; "
        "injected always/never sources reproduce deterministic/identity exactly",
    )


def test_criterion_07_end_to_end_utility_privacy(stack):
    t0 = time.perf_counter()
    test = stack.split.test

    # the generator's constructive rule is the independent ground truth
    raw_pub, raw_priv = oracle_accuracy(test, SYNTH, WINDOW)
    assert raw_pub > 0.99 and raw_priv > 0.99

    det = evaluate_utility_privacy(
        make_anonymizer(stack.registry("deterministic"), seed=11),
        test,
        stack.public_clf,
        stack.private_clf,
        SYNTH.n_public,
    ).weighted
    prob = evaluate_utility_privacy(
        make_anonymizer(stack.registry("probabilistic"), seed=12),
        test,
        stack.public_clf,
        stack.private_clf,
        SYNTH.n_public,
    ).weighted

    # oracle cross-check of the deterministic outputs
    outputs, _ = anonymize_batch(
        test, stack.registry("deterministic"), noise_rng=np.random.default_rng(13)
    )
    oracle_pub = np.mean(
        [oracle_classify(outputs[k], e.origin, SYNTH, WINDOW)[0] == e.true_public
         for k, e in enumerate(test)]
    )

    elapsed = time.perf_counter() - t0 + stack.build_seconds
    ok = (
        det.private_after <= 0.25
        and det.public_after >= 0.85
        and 0.35 <= prob.private_after <= 0.65
        and oracle_pub >= 0.85
        and elapsed < 600.0
    )
    report(
        7,
        ok,
        f"deterministic: private {det.private_before:.3f}->{det.private_after:.3f}, "
        f"public {det.public_before:.3f}->{det.public_after:.3f}; "
        f"probabilistic private after {prob.private_after:.3f}; "
        f"oracle public keep {oracle_pub:.3f}; total {elapsed:.0f}s",
    )


def test_criterion_08_reid_attack_ordering(stack):
    t0 = time.perf_counter()
    config = AttackConfig(
        sample_fraction=0.2, n_runs=20, seed=42, attacker=TrainConfig(epochs=120)
    )
    reports = {}
    for mode in ("deterministic", "probabilistic"):
        registry = stack.registry(mode)
        factory = lambda run_seed: make_anonymizer(registry, seed=run_seed)
        reports[mode] = run_reid_attack(
            factory, stack.split.train, stack.split.test, SYNTH.n_private, config, mode=mode
        )
    det, prob = reports["deterministic"], reports["probabilistic"]
    elapsed = time.perf_counter() - t0
    ok = det.mean > 0.85 and (det.mean - prob.mean) >= 0.10 and elapsed < 900.0
    report(
        8,
        ok,
        f"20-run attacker mean: deterministic {det.mean:.3f} (std {det.std:.3f}) vs "
        f"probabilistic {prob.mean:.3f} (std {prob.std:.3f}); gap "
        f"{det.mean - prob.mean:.3f}; {elapsed:.0f}s",
    )


def test_criterion_09_realtime_budget():
    # inertial-sensor scale: 128-sample windows of 12 channels
    rng = np.random.default_rng(55)
    dim, latent = 128 * 12, 8
    vaes = {
        u: VaeModel(input_dim=dim, latent_dim=latent, n_private=2, public_class=u, rng=rng)
        for u in range(4)
    }
    table = MeanLatentTable(
        4, 2, latent, {(u, i): (rng.standard_normal(latent), 1) for u in range(4) for i in range(2)}
    )
    registry = ModelRegistry(
        vaes=vaes,
        public_classifier=Classifier(dim, 4, "public", rng=rng),
        private_classifier=Classifier(dim, 2, "private", rng=rng),
        mean_table=table,
        policy=ModifyPolicy(mode="deterministic", n_classes=2),
    )
    embeddings = list(rng.standard_normal((256, dim)))
    timing = benchmark_pipeline(registry, embeddings, warmup=100, repetitions=3)
    verdict = check_realtime(timing, time_budget_ms(50.0, 10))
    decomposition = timing.decomposition_gap()
    report(
        9,
        verdict.passed and decomposition < 0.10,
        f"p99 {verdict.p99_ms:.3f} ms vs 200 ms budget (margin {verdict.margin_ms:.1f} ms); "
        f"stage median sum within {decomposition:.1%} of the median total",
    )


def test_criterion_10_reproducibility(stack, tmp_path):
    small = SynthConfig(n_public=1, n_subjects=4, trials_per_class=1,
                        samples_per_trial=160, n_channels=2, seed=9)
    embeddings = [
        e for s in synth_generate(small) for e in window_embeddings(s, WINDOW, STRIDE)
    ]
    config = TrainConfig(epochs=12, seed=77)

    def train_bytes():
        model, _ = train_vae(embeddings, config, n_private=2)
        return b"".join(np.ascontiguousarray(p).tobytes() for p in model.parameters()), model

    bytes_a, model = train_bytes()
    bytes_b, _ = train_bytes()

    clf_a, _ = train_classifier(embeddings, "private", config, n_classes=2)
    clf_b, _ = train_classifier(embeddings, "private", config, n_classes=2)
    clf_same = all(
        np.array_equal(p, q) for p, q in zip(clf_a.parameters(), clf_b.parameters())
    )

    attack_config = AttackConfig(sample_fraction=0.2, n_runs=3, seed=5,
                                 attacker=TrainConfig(epochs=30))
    registry = stack.registry("deterministic")
    factory = lambda run_seed: make_anonymizer(registry, seed=run_seed)
    attack_a = run_reid_attack(factory, stack.split.train, stack.split.test, 2, attack_config)
    attack_b = run_reid_attack(factory, stack.split.train, stack.split.test, 2, attack_config)

    model_path = tmp_path / "model.lann"
    save_model(model_path, model, training_seed=77)
    loaded, _ = load_model(model_path)
    model_roundtrip = all(
        np.array_equal(p, q) for p, q in zip(model.parameters(), loaded.parameters())
    )
    table_path = tmp_path / "table.zbar"
    save_table(stack.table, table_path)
    table_roundtrip = load_table(table_path) == stack.table

    ok = (
        bytes_a == bytes_b
        and clf_same
        and attack_a.accuracies == attack_b.accuracies
        and model_roundtrip
        and table_roundtrip
    )
    report(
        10,
        ok,
        "training and attack runs are bit-identical under a fixed seed; "
        "model and table files round-trip bit-exactly",
    )


def test_criterion_11_motionsense_optional():
    data_dir = os.environ.get("MOTIONSENSE_DIR")
    if not data_dir:
        pytest.skip(
            "criterion 11 is data-supplied: set MOTIONSENSE_DIR to a directory of "
            "device-motion recordings to run the full gender-anonymization check"
        )
    import json
    import tempfile

    from latent_anon.cli import main

    with tempfile.TemporaryDirectory() as work:
        work = os.path.join(work, "run")
        steps = [
            ["prepare", "--schema", "motionsense", "--data", data_dir,
             "--out", f"{work}/data", "--window", "128", "--stride", "10",
             "--split", "trial", "--seed", "0"],
            ["train", "--archive", f"{work}/data", "--out", f"{work}/models",
             "--alpha", "2", "--beta", "2", "--epochs", "60", "--seed", "0"],
            ["means", "--archive", f"{work}/data", "--models", f"{work}/models",
             "--out", f"{work}/table"],
            ["eval", "--archive", f"{work}/data", "--models", f"{work}/models",
             "--table", f"{work}/table/table.zbar", "--mode", "det", "--seed", "0",
             "--out", f"{work}/eval"],
        ]
        for step in steps:
            assert main(step) == 0, f"step failed: {step[0]}"
        with open(f"{work}/eval/eval.json") as f:
            weighted = json.load(f)["weighted"]
    drop = weighted["private_before"] - weighted["private_after"]
    report(
        11,
        drop > 0.50,
        f"weighted private accuracy drop {drop:.1%} "
        f"({weighted['private_before']:.3f} -> {weighted['private_after']:.3f})",
    )
