"""Synthetic sensor dataset with a known, constructive decision rule.

Each (public u, private i) class pair owns a unique waveform: channel c at
sample index t is

    a_i * sin(2*pi * f_u * t / rate + phi_i + psi_c) + b_u + noise

where the frequency f_u and baseline offset b_u encode the public class, the
amplitude a_i and phase phi_i encode the private class, and psi_c is a fixed
per-channel shift. The parameter gaps between classes scale with the
``separation`` setting, so at low noise the nearest-template rule below is
essentially Bayes optimal. That rule is the independent ground truth that
end-to-end tests check trained models and the anonymization pipeline against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .types import SensorSeries


@dataclass
class SynthConfig:
    """Defaults give whole-cycle frequencies at a 32 Hz rate, so windows cut
    at multiples of half the rate share their phase (stride 16 at 32 Hz).
    When every class frequency completes whole cycles per stride, aligned
    windows of one class share their phase, so each (u, i) class forms a
    single template cluster instead of a phase circle; latent class means
    then separate cleanly, which the mean-shift transformation relies on."""

    n_public: int = 4
    n_private: int = 2
    n_subjects: int = 10
    trials_per_class: int = 2
    samples_per_trial: int = 400
    n_channels: int = 3
    sampling_rate_hz: float = 32.0
    separation: float = 1.0
    noise_std: float = 0.05
    seed: int = 0
    base_freq_hz: float = 2.0
    freq_step_hz: float = 2.0


def _check_config(cfg):
    if cfg.n_public < 1 or cfg.n_private < 1:
        raise ValueError("class counts must be at least 1")
    if cfg.separation <= 0:
        raise ValueError("separation must be positive")
    if cfg.n_channels < 1 or cfg.n_subjects < 1:
        raise ValueError("degenerate generator config")


def class_template(cfg, public, private, t_indices):
    """Noise-free (len(t), C) signal block for one class pair."""
    t = np.asarray(t_indices, dtype=float) / cfg.sampling_rate_hz
    freq = cfg.base_freq_hz + public * cfg.freq_step_hz * cfg.separation
    amp = 1.0 + private * cfg.separation
    offset = public * cfg.separation
    phase_private = 2.0 * math.pi * private / (cfg.n_private + 1)
    phase_channel = 2.0 * math.pi * np.arange(cfg.n_channels) / (cfg.n_channels + 1)
    angle = 2.0 * math.pi * freq * t[:, None] + phase_private + phase_channel[None, :]
    return amp * np.sin(angle) + offset


def synth_generate(cfg):
    """Generate one SensorSeries per (subject, public class, trial).

    Subject s carries private class s mod n_private. A fixed seed yields a
    bit-identical dataset.
    """
    _check_config(cfg)
    rng = np.random.default_rng(cfg.seed)
    t_idx = np.arange(cfg.samples_per_trial)
    series = []
    for s in range(cfg.n_subjects):
        private = s % cfg.n_private
        for u in range(cfg.n_public):
            for trial in range(cfg.trials_per_class):
                clean = class_template(cfg, u, private, t_idx)
                noisy = clean + rng.normal(0.0, cfg.noise_std, size=clean.shape)
                series.append(
                    SensorSeries(
                        subject_id=f"s{s:02d}",
                        samples=noisy,
                        sampling_rate_hz=cfg.sampling_rate_hz,
                        attributes={"public": u, "private": private, "trial": trial},
                    )
                )
    return series


def oracle_classify(x, origin, cfg, window):
    """Nearest-template classification of one (possibly flattened) window.

    Uses the generator's own rule: reconstruct every class template at the
    window's position and pick the closest in squared error. Returns
    (public, private).
    """
    block = np.asarray(x, dtype=float).reshape(window, cfg.n_channels)
    t_idx = np.arange(origin, origin + window)
    best = None
    best_dist = math.inf
    for u in range(cfg.n_public):
        for i in range(cfg.n_private):
            template = class_template(cfg, u, i, t_idx)
            dist = float(np.sum((block - template) ** 2))
            if dist < best_dist:
                best_dist = dist
                best = (u, i)
    return best


def oracle_accuracy(embeddings, cfg, window):
    """Fraction of embeddings the nearest-template rule labels correctly."""
    if not embeddings:
        raise ValueError("empty dataset")
    pub_ok = 0
    priv_ok = 0
    for e in embeddings:
        u_hat, i_hat = oracle_classify(e.x, e.origin, cfg, window)
        pub_ok += u_hat == e.true_public
        priv_ok += i_hat == e.true_private
    n = len(embeddings)
    return pub_ok / n, priv_ok / n
