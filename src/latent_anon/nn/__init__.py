from .gradcheck import GradCheckReport, grad_check
from .layers import ACTIVATIONS, MLP, Dense
from .losses import (
    LOG_FLOOR,
    cross_entropy,
    cross_entropy_from_labels,
    one_hot,
    softmax,
    squared_error,
)
from .optim import Adam
from .serialize import ContainerError, load_tensors, save_tensors

__all__ = [
    "ACTIVATIONS",
    "Adam",
    "ContainerError",
    "Dense",
    "GradCheckReport",
    "LOG_FLOOR",
    "MLP",
    "cross_entropy",
    "cross_entropy_from_labels",
    "grad_check",
    "load_tensors",
    "one_hot",
    "save_tensors",
    "softmax",
    "squared_error",
]
