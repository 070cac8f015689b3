"""Seeded inputs and trained model sets for the three workloads.

Everything here goes through the package's public modules as attributes
(``data.synth_generate``, ``models.train_vae``, ...), never through names
imported once, so the spans the traced run installs on those attributes see
every call.
"""

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from latent_anon import data, models, pipeline, transform

# Motion-sense shape: 6 activities, gender as the private attribute, the 12
# device-motion channels, a 64-row window. Frequencies step by 2 Hz at 32 Hz,
# so windows cut every 16 rows keep their phase (see synth.window_alignment).
ARCHIVE_SHAPE = dict(n_public=6, n_private=2, n_channels=12, sampling_rate_hz=32.0)
ARCHIVE_WINDOW, ARCHIVE_STRIDE = 64, 16
ARCHIVE_TRAIN_SUBJECTS = 4
ARCHIVE_SUBJECTS = 10
ARCHIVE_EPOCHS = 20
ARCHIVE_BATCH = 16

# The paper's real-time setting: 50 Hz, window 32, stride 10, so one window
# every 200 ms per stream. 5 Hz steps keep stride-10 windows in phase.
STREAM_SHAPE = dict(
    n_public=4, n_private=2, n_channels=3, sampling_rate_hz=50.0, base_freq_hz=5.0, freq_step_hz=5.0
)
STREAM_WINDOW, STREAM_STRIDE = 32, 10
STREAM_TRAIN_SUBJECTS = 6
STREAM_EPOCHS = 20
STREAM_SOURCE_SUBJECTS = 4
STREAM_SOURCE_ROWS = 2400

# The README's synthetic defaults: 4 x 2 classes, window 32, stride 16.
REID_WINDOW, REID_STRIDE = 32, 16


@dataclass
class ModelSet:
    public_clf: object
    private_clf: object
    vaes: dict
    table: object

    def registry(self, mode):
        return pipeline.ModelRegistry(
            vaes=self.vaes,
            public_classifier=self.public_clf,
            private_classifier=self.private_clf,
            mean_table=self.table,
            policy=transform.ModifyPolicy(mode=mode, n_classes=self.private_clf.n_classes),
        )


def derive_seed(seed, *tags):
    """Independent child seed for one use of the run seed."""
    return int(np.random.SeedSequence([int(seed), *tags]).generate_state(1)[0])


def windows(cfg, window, stride):
    return [e for s in data.synth_generate(cfg) for e in data.window_embeddings(s, window, stride)]


def train_model_set(train, n_public, n_private, config, timings=None):
    """Both classifiers, one VAE per public class, and the training-split mean
    table. timings, when given, collects (model, rows x epochs, seconds)."""

    def timed(name, rows, fn, *args, **kwargs):
        t0 = perf_counter()
        model, _ = fn(*args, **kwargs)
        if timings is not None:
            timings.append((name, rows * config.epochs, perf_counter() - t0))
        return model

    public_clf = timed("public", len(train), models.train_classifier, train, "public", config, n_classes=n_public)
    private_clf = timed("private", len(train), models.train_classifier, train, "private", config, n_classes=n_private)
    vaes = {}
    for u in range(n_public):
        subset = [e for e in train if e.true_public == u]
        vaes[u] = timed(f"vae{u}", len(subset), models.train_vae, subset, config, n_private=n_private)
    table = transform.compute_mean_table(
        [(vaes[e.true_public].encode(e.x).mu, e.true_public, e.true_private) for e in train],
        n_public,
        n_private,
    )
    return ModelSet(public_clf, private_clf, vaes, table)


@dataclass
class ArchiveFixture:
    models: ModelSet
    meta: object
    path: str
    n_embeddings: int


def build_archive(seed, path):
    """Train on a few subjects, then write a held-out archive of many others."""
    train = windows(
        data.SynthConfig(
            n_subjects=ARCHIVE_TRAIN_SUBJECTS, trials_per_class=1, seed=derive_seed(seed, 1), **ARCHIVE_SHAPE
        ),
        ARCHIVE_WINDOW,
        ARCHIVE_STRIDE,
    )
    model_set = train_model_set(
        train,
        ARCHIVE_SHAPE["n_public"],
        ARCHIVE_SHAPE["n_private"],
        models.TrainConfig(epochs=ARCHIVE_EPOCHS, batch_size=ARCHIVE_BATCH, seed=derive_seed(seed, 2)),
    )
    archive = windows(
        data.SynthConfig(
            n_subjects=ARCHIVE_SUBJECTS, trials_per_class=1, seed=derive_seed(seed, 3), **ARCHIVE_SHAPE
        ),
        ARCHIVE_WINDOW,
        ARCHIVE_STRIDE,
    )
    meta = data.ArchiveMeta(
        window=ARCHIVE_WINDOW,
        stride=ARCHIVE_STRIDE,
        n_channels=ARCHIVE_SHAPE["n_channels"],
        n_public=ARCHIVE_SHAPE["n_public"],
        n_private=ARCHIVE_SHAPE["n_private"],
    )
    data.save_embeddings(path, archive, meta)
    return ArchiveFixture(model_set, meta, path, len(archive))


@dataclass
class StreamFixture:
    models: ModelSet
    sources: list  # (T, C) sample matrices the streams replay
    source_public: list  # true public class of each source


def build_stream(seed):
    train = windows(
        data.SynthConfig(
            n_subjects=STREAM_TRAIN_SUBJECTS, trials_per_class=1, samples_per_trial=300,
            seed=derive_seed(seed, 1), **STREAM_SHAPE,
        ),
        STREAM_WINDOW,
        STREAM_STRIDE,
    )
    model_set = train_model_set(
        train,
        STREAM_SHAPE["n_public"],
        STREAM_SHAPE["n_private"],
        models.TrainConfig(epochs=STREAM_EPOCHS, seed=derive_seed(seed, 2)),
    )
    sources = data.synth_generate(
        data.SynthConfig(
            n_subjects=STREAM_SOURCE_SUBJECTS, trials_per_class=1, samples_per_trial=STREAM_SOURCE_ROWS,
            seed=derive_seed(seed, 3), **STREAM_SHAPE,
        )
    )
    return StreamFixture(
        model_set, [s.samples for s in sources], [s.attributes["public"] for s in sources]
    )


@dataclass
class ReidFixture:
    split: object
    n_public: int
    n_private: int


def build_reid(seed):
    cfg = data.SynthConfig(seed=derive_seed(seed, 1))
    split = data.subject_split(windows(cfg, REID_WINDOW, REID_STRIDE), 0.8, seed=derive_seed(seed, 2))
    return ReidFixture(split, cfg.n_public, cfg.n_private)
