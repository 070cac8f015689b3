from .gradcheck import GradCheckReport, grad_check
from .layers import ACTIVATIONS, MLP, Dense
from .losses import LOG_FLOOR, cross_entropy_from_labels, softmax, squared_error
from .optim import Adam

__all__ = [
    "ACTIVATIONS",
    "Adam",
    "Dense",
    "GradCheckReport",
    "LOG_FLOOR",
    "MLP",
    "cross_entropy_from_labels",
    "grad_check",
    "softmax",
    "squared_error",
]
