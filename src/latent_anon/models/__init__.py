from .classifier import Classifier
from .gridsearch import GridEntry, GridSearchResult, grid_search
from .persist import ContainerError, load_model, load_model_dir, model_file, save_model
from .training import TrainConfig, derive_seed, evaluate_accuracy, train_classifier, train_vae
from .vae import (
    LatentDistribution,
    LossBreakdown,
    VaeModel,
    kl_gaussian,
    loss_and_gradients,
    reconstruction_loss,
    sample_latent,
)

__all__ = [
    "Classifier",
    "ContainerError",
    "GridEntry",
    "GridSearchResult",
    "LatentDistribution",
    "LossBreakdown",
    "TrainConfig",
    "VaeModel",
    "derive_seed",
    "evaluate_accuracy",
    "grid_search",
    "kl_gaussian",
    "load_model",
    "load_model_dir",
    "loss_and_gradients",
    "model_file",
    "reconstruction_loss",
    "sample_latent",
    "save_model",
    "train_classifier",
    "train_vae",
]
