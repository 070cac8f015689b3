"""Train/test splitting.

The subject-based split keeps every subject entirely on one side, so a
classifier can never memorize a person across the boundary. The trial-based
split instead holds out whole trial numbers.
"""

import numpy as np

from .types import DatasetSplit


def subject_split(embeddings, train_fraction, seed=0):
    """Partition subjects greedily by cumulative embedding count.

    Subjects are visited in a seed-shuffled order and assigned to the train
    side while its size is below train_fraction of the total, so the achieved
    fraction is within one subject's mass of the target. Both sides are
    guaranteed nonempty.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be strictly between 0 and 1")
    by_subject = {}
    for e in embeddings:
        by_subject.setdefault(e.subject_id, []).append(e)
    subjects = sorted(by_subject, key=str)
    if len(subjects) < 2:
        raise ValueError("subject-based split needs at least two subjects")
    rng = np.random.default_rng(seed)
    order = [subjects[i] for i in rng.permutation(len(subjects))]

    total = len(embeddings)
    target = train_fraction * total
    train_subjects, test_subjects = [], []
    train_count = 0
    for sid in order:
        if train_count < target:
            train_subjects.append(sid)
            train_count += len(by_subject[sid])
        else:
            test_subjects.append(sid)
    if not test_subjects:
        test_subjects.append(train_subjects.pop())
    train = [e for sid in train_subjects for e in by_subject[sid]]
    test = [e for sid in test_subjects for e in by_subject[sid]]
    return DatasetSplit(
        train=train,
        test=test,
        train_subjects=sorted(train_subjects, key=str),
        test_subjects=sorted(test_subjects, key=str),
    )


def trial_split(embeddings, test_trials):
    """Hold out the embeddings whose trial number is in test_trials. Both
    sides must be nonempty."""
    test_trials = set(test_trials)
    train, test = [], []
    for e in embeddings:
        if e.trial is None:
            raise ValueError("trial-based split needs trial numbers on every embedding")
        (test if e.trial in test_trials else train).append(e)
    if not train or not test:
        trials = sorted({e.trial for e in embeddings})
        raise ValueError(f"test trials {sorted(test_trials)} leave the {'test' if train else 'train'} "
                         f"side of the trial-based split empty; the embeddings' trials are {trials}")
    subjects = lambda items: sorted({e.subject_id for e in items}, key=str)
    return DatasetSplit(
        train=train, test=test, train_subjects=subjects(train), test_subjects=subjects(test)
    )
