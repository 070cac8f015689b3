from .gradcheck import GradCheckReport, grad_check
from .layers import ACTIVATIONS, MLP, Dense
from .losses import LOG_FLOOR, cross_entropy_from_labels, softmax, squared_error
from .optim import Adam
from .serialize import ContainerError

__all__ = [
    "ACTIVATIONS",
    "Adam",
    "ContainerError",
    "Dense",
    "GradCheckReport",
    "LOG_FLOOR",
    "MLP",
    "cross_entropy_from_labels",
    "grad_check",
    "softmax",
    "squared_error",
]
