"""Core dataset types."""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SensorSeries:
    """One recording trial: a (T, C) sample matrix plus its labels.

    attributes carries whatever is known about the trial, typically
    "public" (activity class index), "private" (e.g. gender or weight
    group index) and "trial" (trial number within the recording).
    """

    subject_id: str
    samples: np.ndarray
    sampling_rate_hz: float
    attributes: dict = field(default_factory=dict)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2:
            raise ValueError(f"samples must be (T, C), got shape {self.samples.shape}")
        if self.sampling_rate_hz <= 0:
            raise ValueError("sampling rate must be positive")

    @property
    def n_samples(self):
        return self.samples.shape[0]

    @property
    def n_channels(self):
        return self.samples.shape[1]


@dataclass
class Embedding:
    """One flattened window of sensor data plus provenance.

    x is the window flattened time-major: all channels of the first sample,
    then all channels of the second, and so on.
    """

    x: np.ndarray
    true_public: int | None = None
    true_private: int | None = None
    subject_id: str | None = None
    origin: int | None = None
    trial: int | None = None


@dataclass
class LabelSpace:
    n_public: int
    n_private: int

    def __post_init__(self):
        if self.n_public < 1:
            raise ValueError("need at least one public class")
        if self.n_private < 2:
            raise ValueError("need at least two private classes")


@dataclass
class DatasetSplit:
    train: list
    test: list
    train_subjects: list = field(default_factory=list)
    test_subjects: list = field(default_factory=list)
