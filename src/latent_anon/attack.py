"""Re-identification attack harness and utility/privacy evaluation.

The attack models an adversary who can push labeled sensor data through the
obfuscator: each run samples a fraction of the training split uniformly at
random, obfuscates it live, trains an attacker model on (obfuscated
embedding, true private label), then measures how well that model recovers
the private attribute on the obfuscated test split. Runs are independent and
aggregated as mean and sample standard deviation.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .data.types import Embedding
from .models.training import TrainConfig, derive_seed, train_classifier


@dataclass
class AttackConfig:
    sample_fraction: float = 0.2
    n_runs: int = 20
    seed: int = 0
    attacker: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=150))

    def __post_init__(self):
        if not 0.0 < self.sample_fraction < 1.0:
            raise ValueError("sample_fraction must be strictly between 0 and 1")
        if self.n_runs < 1:
            raise ValueError("need at least one run")


@dataclass
class AttackReport:
    accuracies: list
    mean: float
    std: float
    mode: str = ""
    config: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def to_csv(self):
        lines = ["run,accuracy"]
        lines += [f"{k},{acc:.6f}" for k, acc in enumerate(self.accuracies)]
        return "\n".join(lines) + "\n"


def _single_run(anonymizer_factory, train_embeddings, test_embeddings, n_private, config, run):
    seed = derive_seed(config.seed, run)
    rng = np.random.default_rng(seed)
    n = len(train_embeddings)
    k = int(round(config.sample_fraction * n))
    idx = rng.choice(n, size=k, replace=False)
    sample = [train_embeddings[j] for j in idx]

    anonymize = anonymizer_factory(seed)
    obf_train = anonymize(sample)
    # the attacker sees obfuscated data and true private labels, nothing else
    attacker_data = [
        Embedding(x=obf_train[j], true_private=sample[j].true_private)
        for j in range(len(sample))
    ]
    attacker, _ = train_classifier(
        attacker_data,
        "private",
        config.attacker.with_seed(seed),
        n_classes=n_private,
    )
    obf_test = anonymize(test_embeddings)
    truth = np.array([e.true_private for e in test_embeddings])
    predictions = attacker.predict(obf_test)
    return float(np.mean(predictions == truth))


def run_reid_attack(
    anonymizer_factory,
    train_embeddings,
    test_embeddings,
    n_private,
    config,
    mode="",
    n_workers=1,
):
    """Run the attack config.n_runs times and aggregate.

    anonymizer_factory(run_seed) must return a fresh callable mapping a list
    of embeddings to an (N, D) array of obfuscated embeddings; the factory
    gets a distinct derived seed per run so deterministic anonymizers stay
    reproducible while each run draws its own sample and attacker init.
    """
    n = len(train_embeddings)
    k = int(round(config.sample_fraction * n))
    if k < 2 * n_private:
        raise ValueError(
            f"sample fraction {config.sample_fraction} of {n} embeddings yields "
            f"{k} < {2 * n_private} attacker training samples"
        )
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        accuracies = list(
            pool.map(
                lambda r: _single_run(
                    anonymizer_factory, train_embeddings, test_embeddings, n_private, config, r
                ),
                range(config.n_runs),
            )
        )
    mean = float(np.mean(accuracies))
    std = float(np.std(accuracies, ddof=1)) if len(accuracies) > 1 else 0.0
    return AttackReport(
        accuracies=accuracies,
        mean=mean,
        std=std,
        mode=mode,
        config={
            "sample_fraction": config.sample_fraction,
            "n_runs": config.n_runs,
            "seed": config.seed,
        },
    )


@dataclass
class ClassRow:
    public_class: int
    n_embeddings: int
    public_before: float | None
    public_after: float | None
    private_before: float | None
    private_after: float | None


@dataclass
class UtilityPrivacyReport:
    rows: list
    weighted: ClassRow

    def to_csv(self):
        lines = ["public_class,n,public_before,public_after,private_before,private_after"]

        def fmt(v):
            return "n/a" if v is None else f"{v:.6f}"

        for r in self.rows + [self.weighted]:
            label = "weighted" if r is self.weighted else str(r.public_class)
            lines.append(
                f"{label},{r.n_embeddings},{fmt(r.public_before)},{fmt(r.public_after)},"
                f"{fmt(r.private_before)},{fmt(r.private_after)}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self):
        def row(r):
            return {
                "n": r.n_embeddings,
                "public_before": r.public_before,
                "public_after": r.public_after,
                "private_before": r.private_before,
                "private_after": r.private_after,
            }

        return json.dumps(
            {
                "per_class": {str(r.public_class): row(r) for r in self.rows},
                "weighted": row(self.weighted),
            },
            indent=2,
            sort_keys=True,
        )


def evaluate_utility_privacy(anonymize, embeddings, public_classifier, private_classifier, n_public):
    """Accuracy of both classifiers before and after anonymization, per true
    public class and as the embedding-count weighted average.

    anonymize maps a list of embeddings to an (N, D) array. Classes absent
    from the test set report n/a (None).
    """
    if not embeddings:
        raise ValueError("empty dataset")
    x = np.stack([e.x for e in embeddings])
    u_true = np.array([e.true_public for e in embeddings])
    i_true = np.array([e.true_private for e in embeddings])
    x_hat = anonymize(embeddings)

    pub_before = public_classifier.predict(x) == u_true
    pub_after = public_classifier.predict(x_hat) == u_true
    priv_before = private_classifier.predict(x) == i_true
    priv_after = private_classifier.predict(x_hat) == i_true

    rows = []
    for u in range(n_public):
        mask = u_true == u
        n = int(mask.sum())
        if n == 0:
            rows.append(ClassRow(u, 0, None, None, None, None))
            continue
        rows.append(
            ClassRow(
                public_class=u,
                n_embeddings=n,
                public_before=float(pub_before[mask].mean()),
                public_after=float(pub_after[mask].mean()),
                private_before=float(priv_before[mask].mean()),
                private_after=float(priv_after[mask].mean()),
            )
        )
    weighted = ClassRow(
        public_class=-1,
        n_embeddings=len(embeddings),
        public_before=float(pub_before.mean()),
        public_after=float(pub_after.mean()),
        private_before=float(priv_before.mean()),
        private_after=float(priv_after.mean()),
    )
    return UtilityPrivacyReport(rows=rows, weighted=weighted)
