"""Grid search over the (alpha, beta) loss weights.

One VAE is trained per public class for every candidate pair; the winning
pair has the lowest final-epoch loss averaged across the public classes.
Ties break toward smaller beta, then smaller alpha, favoring reconstruction
quality.
"""

from dataclasses import dataclass, replace

import numpy as np

from .training import derive_seed, train_vae


@dataclass
class GridEntry:
    alpha: float
    beta: float
    avg_loss: float
    per_class_loss: dict


@dataclass
class GridSearchResult:
    entries: list
    best_alpha: float
    best_beta: float

    @property
    def best_entry(self):
        for e in self.entries:
            if e.alpha == self.best_alpha and e.beta == self.best_beta:
                return e
        raise RuntimeError("best pair missing from entries")


def grid_search(datasets_by_class, alphas, betas, config, n_private):
    """datasets_by_class maps public class -> embeddings of that class."""
    alphas = list(alphas)
    betas = list(betas)
    if not alphas or not betas:
        raise ValueError("need at least one candidate for alpha and for beta")
    if not datasets_by_class:
        raise ValueError("no datasets given")
    entries = []
    for ai, alpha in enumerate(alphas):
        for bi, beta in enumerate(betas):
            per_class = {}
            for u, embeddings in sorted(datasets_by_class.items()):
                cfg = replace(
                    config,
                    alpha=alpha,
                    beta=beta,
                    seed=derive_seed(config.seed, ai, bi, u),
                )
                _, history = train_vae(embeddings, cfg, n_private=n_private)
                if not history:
                    raise ValueError("grid search needs epochs >= 1")
                per_class[u] = history[-1]
            avg = float(np.mean(list(per_class.values())))
            entries.append(GridEntry(alpha=alpha, beta=beta, avg_loss=avg, per_class_loss=per_class))
    best = min(entries, key=lambda e: (e.avg_loss, e.beta, e.alpha))
    return GridSearchResult(entries=entries, best_alpha=best.alpha, best_beta=best.beta)
